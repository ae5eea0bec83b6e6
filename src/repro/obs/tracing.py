"""Contextvar-propagated trace spans, safe across threads and processes.

The span model is deliberately small:

* A :class:`TraceContext` owns a flat list of **span records** (plain
  dicts — picklable, renderable).  Each record has an id, a parent id,
  a name, epoch-anchored start time, duration, attributes, and the
  pid/thread that produced it.
* :func:`trace` activates a context for a ``with`` block;
  :func:`span` opens a nested timer inside the active context.  With no
  active context, :func:`span` returns a shared no-op singleton — the
  disabled fast path is two contextvar reads and costs well under the
  2% budget on ``make bench-sim``.
* Propagation is **explicit where Python drops it**.  ``contextvars``
  flow into ``asyncio`` tasks automatically, but *not* into
  ``loop.run_in_executor`` threads and *not* into
  ``ProcessPoolExecutor`` workers.  :func:`wrap` fixes the first
  (capture ``copy_context()`` at submit time), and the
  :func:`worker_token` / :func:`remote_trace` pair fixes the second
  (ship a picklable token out, collect the worker's span records back,
  :meth:`TraceContext.absorb` re-parents them into the caller's tree).

Timestamps are ``time.perf_counter()`` deltas anchored to the epoch,
re-anchored by :func:`resync_clock` at every trace root (import-time-only
anchoring drifted in long-lived serve processes), so spans recorded in
different processes land on one approximately shared timeline in the
Chrome trace.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from .events import EVENTS

#: Maps ``perf_counter`` readings onto the epoch timeline.  Re-anchored by
#: :func:`resync_clock` at every :func:`trace` / :func:`remote_trace` root:
#: an import-time-only offset drifts in long-lived serve processes
#: (``perf_counter`` and the wall clock tick at slightly different rates,
#: and NTP steps the wall clock), skewing cross-process Chrome trace
#: alignment.  Per-root re-anchoring keeps skew bounded by one trace's
#: duration instead of the process's uptime.
_CLOCK_OFFSET = time.time() - time.perf_counter()


def resync_clock() -> float:
    """Re-anchor the perf_counter-to-epoch offset; returns the new offset.

    Called automatically when a root :func:`trace` (or a worker's
    :func:`remote_trace`) starts.  Cheap enough to call freely — two clock
    reads — and safe mid-trace: spans only use the offset via :func:`_now`,
    so a re-sync shifts subsequent timestamps onto the *corrected*
    timeline, which is the point.
    """
    global _CLOCK_OFFSET
    _CLOCK_OFFSET = time.time() - time.perf_counter()
    return _CLOCK_OFFSET


def _now() -> float:
    """Epoch-anchored high-resolution timestamp."""
    return time.perf_counter() + _CLOCK_OFFSET


class TraceContext:
    """A single trace: an id plus the span records collected under it."""

    __slots__ = ("trace_id", "_lock", "_records", "_next_id")

    def __init__(self, trace_id: Optional[str] = None):
        self.trace_id = trace_id or f"{os.getpid():x}-{id(self):x}"
        self._lock = threading.Lock()
        self._records: List[Dict[str, Any]] = []
        self._next_id = 1

    def add(self, name: str, start: float, duration: float,
            parent: Optional[int], attrs: Dict[str, Any]) -> int:
        """Record one finished span; returns its id."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            self._records.append({
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "dur": duration,
                "attrs": attrs,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
            })
        EVENTS.spans_recorded.inc()
        return span_id

    def records(self) -> List[Dict[str, Any]]:
        """Snapshot of the recorded spans (copies of the record dicts)."""
        with self._lock:
            return [dict(r) for r in self._records]

    def payload(self) -> Dict[str, Any]:
        """Picklable export of this context (for process handoff)."""
        return {"trace_id": self.trace_id, "records": self.records()}

    def absorb(self, payload: Optional[Dict[str, Any]],
               parent: Optional[int] = None) -> None:
        """Merge a worker's :meth:`payload` into this context.

        Span ids are remapped so they cannot collide with locally issued
        ids; worker root spans (parent ``None``) are re-parented under
        ``parent`` so the worker subtree hangs off the span that
        dispatched it.
        """
        if not payload:
            return
        records = payload.get("records") or []
        if not records:
            return
        with self._lock:
            remap: Dict[int, int] = {}
            for record in records:
                remap[record["id"]] = self._next_id
                self._next_id += 1
            for record in records:
                merged = dict(record)
                merged["id"] = remap[record["id"]]
                old_parent = record.get("parent")
                if old_parent is None:
                    merged["parent"] = parent
                else:
                    merged["parent"] = remap.get(old_parent, parent)
                self._records.append(merged)


#: The active trace context, if any.
_CURRENT: contextvars.ContextVar[Optional[TraceContext]] = \
    contextvars.ContextVar("repro_trace_context", default=None)
#: Id of the innermost open span — the parent for the next `span()`.
_PARENT: contextvars.ContextVar[Optional[int]] = \
    contextvars.ContextVar("repro_trace_parent", default=None)


def current() -> Optional[TraceContext]:
    """The active :class:`TraceContext`, or ``None`` when not tracing."""
    return _CURRENT.get()


class _NullSpan:
    """Shared do-nothing span: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any):
    """Open a nested timer under the active trace (no-op when disabled).

    Usage::

        with span("sim.chunk", rows=2048):
            ...

    Returns the shared :data:`NULL_SPAN` when no trace is active, so the
    disabled cost is two contextvar reads and a truth test.
    """
    ctx = _CURRENT.get()
    if ctx is None:
        return NULL_SPAN
    return _LiveSpan(ctx, name, attrs)


class _LiveSpan:
    """An open span: the handle :func:`span` yields for attaching
    attributes, recorded into its context when the block exits.

    A plain class rather than a generator context manager: serving
    traces open a handful of spans per sub-millisecond request, so the
    per-span cost shows up in ``obs.trace_overhead``.
    """

    __slots__ = ("ctx", "name", "attrs", "span_id", "parent", "token",
                 "start")

    def __init__(self, ctx: TraceContext, name: str,
                 attrs: Dict[str, Any]):
        self.ctx = ctx
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "_LiveSpan":
        ctx = self.ctx
        self.parent = _PARENT.get()
        # Claim this span's id up front so children can parent onto it
        # even though the record is only appended when the span closes.
        with ctx._lock:
            self.span_id = ctx._next_id
            ctx._next_id += 1
        self.token = _PARENT.set(self.span_id)
        self.start = _now()
        return self

    def __exit__(self, *exc_info: object) -> None:
        duration = _now() - self.start
        _PARENT.reset(self.token)
        ctx = self.ctx
        with ctx._lock:
            ctx._records.append({
                "id": self.span_id,
                "parent": self.parent,
                "name": self.name,
                "start": self.start,
                "dur": duration,
                "attrs": self.attrs,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
            })
        EVENTS.spans_recorded.inc()


@contextmanager
def trace(name: str, trace_id: Optional[str] = None,
          **attrs: Any) -> Iterator[TraceContext]:
    """Activate a new trace for the ``with`` block.

    The block body runs inside a root span ``name``; nested :func:`span`
    calls (in this task, its awaited children, and anything dispatched
    through :func:`wrap` / :func:`worker_token`) attach to the same
    context.  Yields the :class:`TraceContext` for export.

    Nested ``trace()`` calls do not start a second trace — they behave
    like a plain :func:`span` inside the active one, so library code can
    declare trace boundaries without stomping a caller's context.
    """
    existing = _CURRENT.get()
    if existing is not None:
        with span(name, **attrs):
            yield existing
        return
    resync_clock()  # fresh epoch anchor per trace root (serve drift fix)
    ctx = TraceContext(trace_id)
    token = _CURRENT.set(ctx)
    try:
        with _LiveSpan(ctx, name, dict(attrs)):
            yield ctx
    finally:
        _CURRENT.reset(token)


def wrap(fn, *args, **kwargs):
    """Bind ``fn`` to the *current* context for executor handoff.

    ``loop.run_in_executor`` and bare ``ThreadPoolExecutor.submit`` run
    callables in threads that do **not** inherit contextvars.  Wrapping
    the callable at submit time carries the active trace (and span
    parent) across::

        await loop.run_in_executor(pool, tracing.wrap(fn, arg))

    Cheap when not tracing: ``copy_context`` on a default-valued context
    is a small constant cost paid only at submit granularity.
    """
    ctx = contextvars.copy_context()

    def _call():
        return ctx.run(fn, *args, **kwargs)

    return _call


def worker_token() -> Optional[Dict[str, Any]]:
    """Picklable handoff token for ``ProcessPoolExecutor`` workers.

    ``None`` when not tracing (workers skip all span bookkeeping).  The
    worker passes it to :func:`remote_trace`; the parent absorbs the
    records the worker ships back.
    """
    ctx = _CURRENT.get()
    if ctx is None:
        return None
    return {"trace_id": ctx.trace_id, "parent": _PARENT.get()}


@contextmanager
def remote_trace(token: Optional[Dict[str, Any]]
                 ) -> Iterator[Optional[TraceContext]]:
    """Re-activate a parent's trace inside a worker process.

    Spans recorded in the block accumulate in a fresh local context;
    the worker returns ``ctx.payload()`` with its result and the parent
    calls :meth:`TraceContext.absorb` to graft the subtree in.  A
    ``None`` token (tracing disabled) yields ``None`` and records
    nothing.
    """
    if token is None:
        yield None
        return
    resync_clock()  # worker processes re-anchor like local trace roots
    ctx = TraceContext(token.get("trace_id"))
    cur_token = _CURRENT.set(ctx)
    # Forked workers inherit the dispatching thread's contextvars, so an
    # open parent span id could leak in; reset it — worker spans must be
    # roots of the local context (absorb() re-parents them).
    par_token = _PARENT.set(None)
    try:
        yield ctx
    finally:
        _PARENT.reset(par_token)
        _CURRENT.reset(cur_token)
