"""Observability: tracing spans, always-on event counters, exporters.

The one-stop import for instrumented code::

    from repro.obs import EVENTS, span, trace

    with trace("characterize") as ctx:
        with span("sim.stream", engine="compiled"):
            ...
    EVENTS.sim_transitions.inc(n, engine="compiled")

See ``docs/OBSERVABILITY.md`` for the span model and counter registry.
"""

from .events import (
    BATCH_SIZE_BUCKETS,
    Counter,
    EventCounters,
    EVENTS,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    delta,
    global_events,
)
from .export import (
    chrome_trace,
    profile_tree,
    span_summary,
    validate_chrome,
    write_chrome,
)
from .tracing import (
    NULL_SPAN,
    TraceContext,
    current,
    remote_trace,
    resync_clock,
    span,
    trace,
    worker_token,
    wrap,
)

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "Counter",
    "EventCounters",
    "EVENTS",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_SPAN",
    "TraceContext",
    "chrome_trace",
    "current",
    "delta",
    "global_events",
    "profile_tree",
    "remote_trace",
    "resync_clock",
    "span",
    "span_summary",
    "trace",
    "validate_chrome",
    "worker_token",
    "wrap",
    "write_chrome",
]
