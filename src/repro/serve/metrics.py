"""Serving-layer metrics, rendered over the shared ``repro.obs`` registry.

The metric primitives (:class:`Counter`, :class:`Gauge`,
:class:`Histogram`, :class:`MetricsRegistry`) live in
:mod:`repro.obs.events` since PR 5 and are re-exported here unchanged for
back-compat.  :class:`ServeMetrics` keeps the serve-local series
(request latency, admission, registry, batching) in a private registry,
and its ``/metrics`` page is now a *renderer* over both that registry
and the process-global :data:`~repro.obs.events.EVENTS` counters — the
engine-level series (``repro_batch_requests_total`` etc.) are defined
exactly once, in ``repro.obs``, and merely exposed here.

``engine_cycles_total`` / ``engine_requests_total`` remain as attribute
aliases to the shared ``repro_batch_*`` counters so existing dashboards
and call sites keep working; they are no longer independent series.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from ..obs.events import (  # noqa: F401  (re-exports: public back-compat)
    BATCH_SIZE_BUCKETS,
    Counter,
    EVENTS,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    _format_labels,
    _format_value,
    _Metric,
)


class ServeMetrics:
    """The serving layer's metric set, wired once and shared by registry,
    batcher and server (docs/SERVING.md lists every series)."""

    def __init__(self):
        self.registry = MetricsRegistry()
        r = self.registry
        # Server front-end.
        self.requests_total = r.counter(
            "serve_requests_total",
            "HTTP requests by endpoint and status code.",
            ("endpoint", "status"),
        )
        self.request_seconds = r.histogram(
            "serve_request_seconds",
            "End-to-end request latency by endpoint.",
            LATENCY_BUCKETS, ("endpoint",),
        )
        self.in_flight = r.gauge(
            "serve_in_flight", "Requests admitted and not yet answered."
        )
        self.rejected_total = r.counter(
            "serve_rejected_total",
            "Requests rejected before processing.", ("reason",),
        )
        # Model registry.
        self.registry_lookups_total = r.counter(
            "serve_registry_lookups_total",
            "Model lookups by resolution path.", ("result",),
        )
        self.registry_load_seconds = r.histogram(
            "serve_registry_load_seconds",
            "Time to materialize a model not already in memory.",
            LATENCY_BUCKETS,
        )
        self.registry_coalesced_total = r.counter(
            "serve_registry_coalesced_total",
            "Lookups that piggybacked on an in-flight load (single-flight).",
        )
        self.registry_models = r.gauge(
            "serve_registry_models", "Models resident in memory."
        )
        # Micro-batcher.
        self.batch_size = r.histogram(
            "serve_batch_size", "Requests coalesced per flush.",
            BATCH_SIZE_BUCKETS,
        )
        self.batch_flush_total = r.counter(
            "serve_batch_flush_total", "Batch flushes by trigger.",
            ("reason",),
        )
        # Streaming sessions (docs/SERVING.md "Streaming sessions").
        self.sessions_open = r.gauge(
            "serve_sessions_open", "Streaming sessions currently open."
        )
        self.sessions_created_total = r.counter(
            "serve_sessions_created_total", "Streaming sessions opened."
        )
        self.sessions_closed_total = r.counter(
            "serve_sessions_closed_total",
            "Streaming sessions closed, by cause "
            "(finalized / ttl / restored-over).",
            ("reason",),
        )
        self.session_appends_total = r.counter(
            "serve_session_appends_total",
            "Segments appended across every streaming session.",
        )
        self.session_rows_total = r.counter(
            "serve_session_rows_total",
            "Input rows consumed across every streaming session.",
        )
        # Tracing exemplar: the most recent traced request's span rollup.
        self.traced_requests_total = r.counter(
            "serve_traced_requests_total",
            "Requests that carried X-Repro-Trace and were traced.",
        )
        self.trace_span_seconds = r.gauge(
            "serve_trace_span_seconds",
            "Total seconds per span name in the most recent traced "
            "request (exemplar, not an aggregate).",
            ("span",),
        )
        # Engine counters: aliases onto the shared repro.obs series —
        # defined once in EVENTS, rendered below with the global set.
        self.engine_cycles_total = EVENTS.batch_cycles
        self.engine_requests_total = EVENTS.batch_requests

    def note_trace(self, summary: Dict[str, Dict[str, float]]) -> None:
        """Record a traced request: bump the counter, refresh the exemplar.

        ``summary`` is the trace's :func:`repro.obs.export.span_summary`;
        its per-span-name totals overwrite the previous exemplar gauges.
        """
        self.traced_requests_total.inc()
        self.trace_span_seconds.set_series(
            ((name,), entry["total_s"]) for name, entry in summary.items()
        )

    def render(self) -> str:
        """Serve-local series followed by the shared repro.obs counters."""
        return self.registry.render() + EVENTS.render()

    def snapshot(self) -> Dict[str, float]:
        """Flat view of both registries (serve-local + shared)."""
        flat = self.registry.snapshot()
        flat.update(EVENTS.snapshot())
        return flat


# ----------------------------------------------------------------------
# Fleet aggregation: merge per-worker expositions under a `worker` label
# ----------------------------------------------------------------------
def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")
    )


def inject_label(line: str, label: str, value: str) -> str:
    """Prefix one sample line's label set with ``label="value"``.

    ``line`` is a Prometheus text-format sample (``name value`` or
    ``name{labels} value``); comments and blank lines pass through
    untouched.  The injected label goes first so a pre-existing label of
    the same name (there are none in our series) would merely be
    shadowed, not corrupted.
    """
    if not line or line.startswith("#"):
        return line
    name_part, _, sample_value = line.rpartition(" ")
    if not name_part:
        return line
    pair = f'{label}="{_escape_label_value(value)}"'
    if name_part.endswith("}"):
        brace = name_part.index("{")
        inner = name_part[brace + 1:-1]
        merged = pair + ("," + inner if inner else "")
        name_part = f"{name_part[:brace]}{{{merged}}}"
    else:
        name_part = f"{name_part}{{{pair}}}"
    return f"{name_part} {sample_value}"


def aggregate_expositions(
    pages: Mapping[str, str], label: str = "worker"
) -> str:
    """Merge several ``/metrics`` pages into one fleet-wide exposition.

    ``pages`` maps a label value (worker id) to that worker's Prometheus
    text page.  Samples are re-labelled with ``label="<id>"`` and
    regrouped per metric family so each family's ``# HELP``/``# TYPE``
    header appears exactly once, with every worker's samples beneath it
    — the shape Prometheus requires and the shape the fleet supervisor
    serves.
    """
    headers: Dict[str, List[str]] = {}
    samples: Dict[str, List[str]] = {}
    order: List[str] = []

    def family_of(name: str) -> str:
        # Histogram samples use suffixed names under the family header.
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in headers:
                return name[: -len(suffix)]
        return name

    for value in sorted(pages, key=str):
        current = None
        for line in pages[value].splitlines():
            if not line.strip():
                continue
            if line.startswith("#"):
                parts = line.split(" ", 3)
                if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                    current = parts[2]
                    if current not in headers:
                        headers[current] = []
                        samples[current] = []
                        order.append(current)
                    kept = headers[current]
                    if not any(
                        k.startswith(f"# {parts[1]} ") for k in kept
                    ):
                        kept.append(line)
                continue
            name = line.split("{", 1)[0].split(" ", 1)[0]
            family = (
                current
                if current is not None and name.startswith(current)
                else family_of(name)
            )
            if family not in headers:
                headers[family] = []
                samples[family] = []
                order.append(family)
            samples[family].append(inject_label(line, label, value))

    lines: List[str] = []
    for family in order:
        lines.extend(headers[family])
        lines.extend(samples[family])
    return "\n".join(lines) + ("\n" if lines else "")
