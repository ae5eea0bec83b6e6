"""Trace exporters: Chrome ``trace_event`` JSON and human summaries.

Three views over one :class:`~repro.obs.tracing.TraceContext`:

* :func:`chrome_trace` — the Chrome Trace Event format (complete ``X``
  events), loadable in ``about://tracing`` / Perfetto for flamegraphs;
* :func:`profile_tree` — a terminal tree aggregated by span path, the
  body of the CLI ``--profile`` summary;
* :func:`span_summary` — per-name ``{count, total_s, max_s}`` rollup,
  compact enough for a serve response envelope or a ``BENCH_*.json``
  record.

:func:`request_trace` builds the summary and the chrome events of one
served request in a single pass; the other two views take theirs from
it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from .events import EVENTS
from .tracing import TraceContext


def chrome_trace(ctx: TraceContext) -> Dict[str, Any]:
    """Render a context as a Chrome Trace Event JSON object.

    Every span becomes a complete (``"ph": "X"``) event; timestamps are
    microseconds relative to the earliest span so the viewer opens at
    t=0.  The shared event-counter snapshot rides along in
    ``otherData``.
    """
    chrome = request_trace(ctx)[1]
    chrome["otherData"]["counters"] = EVENTS.snapshot()
    return chrome


def request_trace(
    ctx: TraceContext,
) -> Tuple[Dict[str, Dict[str, float]], Dict[str, Any]]:
    """:func:`span_summary` and the chrome object of one served request,
    from one pass over the records.

    The chrome object is :func:`chrome_trace` without the counter
    snapshot: the process-wide totals say nothing about one request, and
    ``/metrics`` already serves them.
    """
    records = ctx.records()
    origin = min((r["start"] for r in records), default=0.0)
    summary: Dict[str, Dict[str, float]] = {}
    events: List[Dict[str, Any]] = []
    for record in records:
        entry = summary.setdefault(
            record["name"], {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += record["dur"]
        entry["max_s"] = max(entry["max_s"], record["dur"])
        attrs = {
            key: value for key, value in record["attrs"].items()
            if isinstance(value, (str, int, float, bool)) or value is None
        }
        events.append({
            "name": record["name"],
            "ph": "X",
            "ts": (record["start"] - origin) * 1e6,
            "dur": record["dur"] * 1e6,
            "pid": record["pid"],
            "tid": record["tid"],
            "cat": "repro",
            "args": attrs,
        })
    for entry in summary.values():
        entry["total_s"] = round(entry["total_s"], 6)
        entry["max_s"] = round(entry["max_s"], 6)
    chrome = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": ctx.trace_id},
    }
    return summary, chrome


def write_chrome(ctx: TraceContext, path: str) -> str:
    """Write :func:`chrome_trace` JSON to ``path``; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(ctx), handle, indent=1)
        handle.write("\n")
    return path


def validate_chrome(obj: Any) -> List[str]:
    """Structural check that ``obj`` is loadable Chrome-trace JSON.

    Returns a list of problems; empty means well-formed.  Used by the
    ``profile-smoke`` CI gate so a malformed exporter fails loudly
    instead of producing a trace the viewer silently rejects.
    """
    problems: List[str] = []
    if not isinstance(obj, dict):
        return ["top level is not an object"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    if not events:
        problems.append("traceEvents is empty")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index} is not an object")
            continue
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in event:
                problems.append(f"event {index} missing {field!r}")
        if event.get("ph") == "X" and "dur" not in event:
            problems.append(f"event {index} is 'X' but missing 'dur'")
        if not isinstance(event.get("ts", 0), (int, float)):
            problems.append(f"event {index} has non-numeric ts")
    return problems


def span_summary(ctx: TraceContext) -> Dict[str, Dict[str, float]]:
    """Per-span-name rollup: ``{name: {count, total_s, max_s}}``."""
    return request_trace(ctx)[0]


def _aggregate_paths(
    ctx: TraceContext,
) -> List[Tuple[Tuple[str, ...], int, float]]:
    """Aggregate spans by their name-path from the root.

    Returns ``(path, count, total_seconds)`` sorted depth-first with
    children ordered by descending total time — the classic profiler
    tree shape.
    """
    records = ctx.records()
    by_id = {r["id"]: r for r in records}

    def path_of(record: Dict[str, Any]) -> Tuple[str, ...]:
        names: List[str] = []
        seen = set()
        node: Optional[Dict[str, Any]] = record
        while node is not None and node["id"] not in seen:
            seen.add(node["id"])
            names.append(node["name"])
            parent = node.get("parent")
            node = by_id.get(parent) if parent is not None else None
        return tuple(reversed(names))

    totals: Dict[Tuple[str, ...], Tuple[int, float]] = {}
    for record in records:
        path = path_of(record)
        count, total = totals.get(path, (0, 0.0))
        totals[path] = (count + 1, total + record["dur"])

    def sort_key(path: Tuple[str, ...]):
        # Depth-first: order each prefix by descending time at that node.
        key = []
        for depth in range(1, len(path) + 1):
            prefix = path[:depth]
            _, total = totals.get(prefix, (0, 0.0))
            key.append((-total, prefix[-1]))
        return key

    return [
        (path, *totals[path]) for path in sorted(totals, key=sort_key)
    ]


def profile_tree(ctx: TraceContext) -> str:
    """Human-readable profile: an indented tree of span paths.

    Example::

        characterize                      1x   1.234s
          characterize.batch              8x   1.101s
            sim.stream                    8x   0.913s
              sim.chunk                  16x   0.871s
    """
    rows = _aggregate_paths(ctx)
    if not rows:
        return "(no spans recorded)"
    name_width = max(
        (2 * (len(path) - 1) + len(path[-1]) for path, _, _ in rows),
        default=20,
    )
    name_width = max(name_width, 20)
    lines = []
    for path, count, total in rows:
        indent = "  " * (len(path) - 1)
        label = f"{indent}{path[-1]}"
        lines.append(
            f"{label:<{name_width}}  {count:>6}x  {total:>9.4f}s"
        )
    return "\n".join(lines)
